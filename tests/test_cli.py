import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from toruswalk import (
    builtin_generators,
    discrepancy_exact,
    exact_walk_distribution,
    project_to_torus,
    scan,
    simulate_walk,
    walk,
)
from toruswalk.cli import main
from toruswalk.scan import (
    _MC_DELTA,
    ScanConfig,
    ScanRow,
    _mc_slack,
    parse_config_text,
    parse_k_schedule,
    run_scan,
    theorem1_lower_bound,
)
from toruswalk.errors import ValidationError
from toruswalk.svgplot import loglog_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_exact(capsys):
    code, out, _ = run_cli(capsys, "dist", "--builtin", "golden", "--k", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert sum(float(l.split(",")[-1]) for l in lines) == pytest.approx(1.0)


def test_dist_exact_at_a_million_steps(capsys):
    # the window of counts above tau: 38 415 surviving atoms of 10^6 + 1 rows
    code, out, _ = run_cli(capsys, "dist", "--builtin", "golden", "--k", "1000000")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 38415
    assert sum(float(l.split(",")[-1]) for l in lines) == pytest.approx(1.0)


def test_dist_undecided_bracket_at_a_million_steps_exits_3(capsys, monkeypatch):
    # a 56-bit mantissa cannot decide the weights; every exact count at
    # k = 10^6 is far over the budget, so the fallback is refused at once
    def no_counts(*args):
        raise AssertionError("counts were built")

    monkeypatch.setattr(walk, "_MANT", 56)
    monkeypatch.setattr(walk, "_rows", no_counts)
    code, out, err = run_cli(capsys, "dist", "--builtin", "golden", "--k", "1000000")
    assert code == 3 and out == ""
    assert "exact counts of the walk (n=1, k=1000000)" in err and "--method mc" in err


def test_dist_unseparated_golden_exits_3_before_its_window(capsys, monkeypatch):
    # past k = 41 963 799 no certificate keeps left-out rows off the window's
    # points, and the exact counts it would fall back to are over the budget
    def no_window(*args):
        raise AssertionError("the window was walked")

    for name in ("_centre", "_dd_weights", "_row_bracket"):
        monkeypatch.setattr(walk, name, no_window)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dist", "--builtin", "golden", "--k", "100000000")
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "exact counts of the walk (n=1, k=100000000)" in err and "--method mc" in err


def test_dist_mc(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--builtin", "golden", "--k", "3", "--trials", "1000", "--seed", "5"
    )
    assert code == 0
    assert len(out.splitlines()) == 4


def test_disc_exact_and_grid(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("0.0,0.25\n0.25,0.25\n0.5,0.25\n0.75,0.25\n")
    code, out, _ = run_cli(capsys, "disc", str(pts))
    assert code == 0
    res = json.loads(out)
    assert res["value"] == pytest.approx(0.25, abs=1e-12)
    code, out, _ = run_cli(capsys, "disc", str(pts), "--resolution", "8")
    assert code == 0
    assert json.loads(out)["value"] <= 0.25 + 1e-12


def test_bounds_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--builtin", "golden", "--k", "10000",
        "--ca", "0.437", "--ca-hmax", "100000", "--etk-m", "7",
    )
    assert code == 0
    res = json.loads(out)
    assert res["M"] == 7
    assert res["lemma_ok"] is True
    assert res["lower"] < res["upper"]
    assert "etk" in res


def test_dist_zero_trials_exits_2(capsys):
    code, out, err = run_cli(capsys, "dist", "--builtin", "golden", "--k", "2", "--trials", "0")
    assert code == 2
    assert "trials must be >= 1" in err and out == ""


def test_scan_zero_trials_exits_2_before_any_row(capsys, tmp_path, monkeypatch):
    # the k = 4 row is exact; only the k = 10^8 row would run Monte Carlo
    def no_row(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(scan, "_row_for_k", no_row)
    code, out, err = run_cli(
        capsys, "scan", "--builtin", "golden", "--k-schedule", "4,100000000", "--trials", "0", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "trials must be >= 1" in err


@pytest.mark.parametrize("ca", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--builtin", "golden", "--k", "100"],
        ["scan", "--builtin", "golden", "--k-schedule", "100", "--out", "{out}"],
    ],
    ids=["bounds", "scan"],
)
def test_non_finite_ca_exits_2(capsys, tmp_path, argv, ca):
    code, out, err = run_cli(capsys, *[a.format(out=tmp_path) for a in argv], "--ca", ca)
    assert code == 2
    assert "approximation constant must be positive and finite" in err and out == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--builtin", "golden", "--k", "2", "--trials", "5", "--seed", "-1"],
        ["dist", "--builtin", "golden", "--k", "2", "--trials", "5", "--seed", str(2**128)],
        ["scan", "--method", "mc", "--builtin", "golden", "--trials", "100", "--seed", "-100",
         "--k-schedule", "8", "--out", "{out}"],
    ],
    ids=["dist-negative", "dist-2^128", "scan-negative"],
)
def test_seed_outside_the_philox_key_range_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *[a.format(out=tmp_path) for a in argv])
    assert code == 2
    assert "outside [0, 2^128)" in err and out == ""


def test_disc_zero_resolution_exits_2(capsys, tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text("0.1,0.5\n0.7,0.5\n")
    code, out, err = run_cli(capsys, "disc", str(pts), "--resolution", "0")
    assert code == 2
    assert "grid resolution must be >= 2" in err and out == ""


def test_bounds_zero_etk_m_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--builtin", "golden", "--k", "10000", "--etk-m", "0"
    )
    assert code == 2
    assert "M must be >= 1" in err and out == ""


@pytest.mark.parametrize("q", ["inf", "1e400"])
def test_dirichlet_infinite_q_exits_2(capsys, q):
    code, out, err = run_cli(capsys, "dirichlet", "--builtin", "golden", "--q", q)
    assert code == 2 and out == ""
    assert "q must be finite and >= 1, not inf" in err


@pytest.mark.parametrize("hmax", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--builtin", "golden", "--k", "100", "--ca", "0.38", "--ca-hmax", "{hmax}"],
        ["scan", "--builtin", "golden", "--k-schedule", "4,8", "--ca", "0.38", "--hmax", "{hmax}",
         "--out", "{out}"],
        ["scan", "--config", "{config}", "--out", "{out}"],
    ],
    ids=["bounds", "scan", "scan-config"],
)
def test_certification_range_below_one_exits_2_before_any_row(
    capsys, tmp_path, monkeypatch, argv, hmax
):
    config = tmp_path / "scan.cfg"
    config.write_text(f"builtin = golden\nk_schedule = 4,8\nca = 0.38\nca_hmax = {hmax}\n")
    monkeypatch.setattr(scan, "_row_for_k", _no_row)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, *[a.format(hmax=hmax, out=out_dir, config=config) for a in argv]
    )
    assert code == 2 and out == ""
    assert f"certification range must be >= 1, not {hmax}" in err
    assert not out_dir.exists()


def test_dirichlet_oversize_box_exits_3_at_once(capsys):
    # the search bound is floor(1000^3) = 10^9: a box of 2 * 10^9 + 1 vectors
    t0 = time.perf_counter()
    code, _, err = run_cli(
        capsys, "dirichlet", "--builtin", "sqrt_primes", "--n", "3", "--d", "1", "--q", "1000"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "Dirichlet search box" in err


def test_badapprox_on_many_primes_exits_3_quickly(capsys):
    # sqrt_primes with n = d = 200 takes the first 40 000 primes
    t0 = time.perf_counter()
    code, _, err = run_cli(
        capsys, "badapprox", "--builtin", "sqrt_primes", "--n", "200", "--d", "200", "--hmax", "1"
    )
    assert time.perf_counter() - t0 < 10.0
    assert code == 3
    assert "search box of sup norm 1" in err


@pytest.mark.parametrize(
    "argv",
    [["dist", "--builtin", "golden", "--k", "10"],
     ["scan", "--builtin", "golden", "--method", "mc", "--k-schedule", "10"]],
    ids=["dist", "scan"],
)
def test_too_many_trials_exits_3_before_any_draw(capsys, tmp_path, monkeypatch, argv):
    def no_generator(*args, **kwargs):
        raise AssertionError("the random generator was built")

    monkeypatch.setattr(np.random, "Philox", no_generator)
    if argv[0] == "scan":
        argv = [*argv, "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, "--trials", str(10**12))
    assert code == 3 and out == ""
    assert "Monte Carlo walk of 1000000000000 trials" in err and "use fewer --trials" in err
    assert not (tmp_path / "out").exists()


def test_dirichlet(capsys):
    code, out, _ = run_cli(capsys, "dirichlet", "--builtin", "golden", "--q", "3")
    assert code == 0
    res = json.loads(out)
    assert res["h"] == [2]
    assert res["sup_distance"] < 1.0 / 3.0


def test_badapprox(capsys):
    code, out, _ = run_cli(capsys, "badapprox", "--builtin", "golden", "--hmax", "100")
    assert code == 0
    res = json.loads(out)
    assert res["argmin_h"] == [1]
    assert res["c_est"] == pytest.approx(0.3819660113, abs=1e-9)


def test_matrix_file_input(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("# one generator\n0.5\n")
    code, out, _ = run_cli(capsys, "dirichlet", "--matrix", str(mat), "--q", "2")
    assert code == 0
    assert json.loads(out)["h"] == [2]


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_matrix_entry_exits_2_naming_its_line(tmp_path, capsys, entry):
    mat = tmp_path / "m.txt"
    mat.write_text(f"# two generators\n0.5\n{entry}\n")
    code, out, err = run_cli(capsys, "dist", "--matrix", str(mat), "--k", "2")
    assert code == 2 and out == ""
    assert f"error: matrix line 3 has a non-finite field: '{entry}'" in err


def test_exit_code_validation(capsys):
    code, _, err = run_cli(capsys, "dist", "--k", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--matrix", "{missing}", "--k", "2"],
        ["disc", "{missing}"],
        ["scan", "--config", "{missing}"],
    ],
    ids=["dist", "disc", "scan"],
)
def test_missing_input_file(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.txt")
    code, _, err = run_cli(capsys, *[a.format(missing=missing) for a in argv])
    assert code == 2
    assert missing in err


def test_disc_non_numeric_field_exits_2(capsys, tmp_path):
    pts = tmp_path / "bad.csv"
    pts.write_text("0.5,0.5\n0.1,abc\n")
    code, _, err = run_cli(capsys, "disc", str(pts))
    assert code == 2
    assert "line 2" in err and "0.1,abc" in err


@pytest.mark.parametrize(
    "text,message,resolution",
    [
        ("0.5,0.5\nnan,0.5\n", "line 2 has a non-finite field", None),
        ("0.5,0.5\n0.25,inf\n", "line 2 has a non-finite field", None),
        ("0.5,0.5\n-0.5,0.5\n", "line 2 has a coordinate outside [0, 1)", "8"),
        ("0.5,0.5\n1.0,0.5\n", "line 2 has a coordinate outside [0, 1)", None),
        ("0.25,1.5\n0.75,-0.5\n", "line 2 has a negative weight", None),
        ("# x, w\n0.5,0.5\n\n0.1,nan\n", "line 4 has a non-finite field", None),
        ("0.5,0.5\n0.5\n", "point-set line 2 has fewer than 2 fields: '0.5'", None),
        ("0.5,0.5\n0.25,0.5,0.5\n", "line 2 has 3 fields, where the first data line has 2", None),
        ("# no atoms\n\n", "empty point-set file", None),
    ],
    ids=[
        "nan-coordinate", "inf-weight", "negative-coordinate-grid", "coordinate-1", "negative-weight",
        "comment-and-blank-lines-counted", "one-field", "mixed-dimensions", "no-data",
    ],
)
def test_disc_invalid_point_exits_2(capsys, tmp_path, text, message, resolution):
    pts = tmp_path / "bad.csv"
    pts.write_text(text)
    argv = ["disc", str(pts)] + (["--resolution", resolution] if resolution else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_disc_weights_not_summing_to_one_exit_2(capsys, tmp_path):
    # a discrepancy above 1, labelled exact, came out of this file before
    pts = tmp_path / "heavy.csv"
    pts.write_text("0.25,1.5\n0.75,0.5\n")
    code, out, err = run_cli(capsys, "disc", str(pts))
    assert code == 2 and out == ""
    assert "weights sum to 2.0, not 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--builtin", "golden", "--k", "32768"],
        ["--builtin", "sqrt_primes", "--n", "2", "--k", "300", "--trials", "5000", "--seed", "3"],
    ],
    ids=["exact", "monte-carlo"],
)
def test_dist_output_round_trips_through_disc(capsys, tmp_path, argv):
    pts = tmp_path / "dist.csv"
    assert run_cli(capsys, "dist", *argv, "--out", str(pts))[0] == 0
    code, out, _ = run_cli(capsys, "disc", str(pts))
    assert code == 0
    if "--trials" in argv:
        P = simulate_walk(builtin_generators("sqrt_primes", 2, 1), 300, trials=5000, seed=3)
    else:
        G = builtin_generators("golden", 1, 1)
        P = project_to_torus(exact_walk_distribution(G, 32768), G)
    res = json.loads(out)
    assert res["exactness"] == "exact"
    assert res["value"] == discrepancy_exact(P).value


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bounds", "--builtin", "golden", "--k", str(10**400)], "too large for a float"),
        (["bounds", "--builtin", "golden", "--k", str(10**400), "--ca", "0.4", "--etk-m", "3"],
         "too large for a float"),
        (["bounds", "--builtin", "golden", "--k", str(2**1023), "--ca", "2.0"],
         "truncation index at k=8.99e+307, c_a=2.0 overflows a float"),
        (["dist", "--builtin", "golden", "--k", str(10**20), "--trials", "10"],
         "step count k must lie in [0, 2^63)"),
        (["dist", "--builtin", "golden", "--k", str(2**63), "--trials", "10"],
         "step count k must lie in [0, 2^63)"),
        (["scan", "--builtin", "golden", "--k-schedule", "pow2:0..20000"],
         "pow2 schedule exponent 20000 above 1023"),
    ],
    ids=["bounds", "bounds-etk", "bounds-truncation-index", "dist-mc", "dist-mc-2^63", "scan-pow2"],
)
def test_huge_k_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command", ["bounds", "scan"])
@pytest.mark.parametrize(
    "family,seed,message",
    [
        ("rational:x", "0", "bad rational parameter 'x': expected an integer denominator"),
        ("diagonal:x", "0", "bad diagonal parameter 'x': expected a number"),
        ("diagonal", "0", "bad diagonal parameter None: expected a number"),
        ("random", "-1", "random family seed -1 is negative"),
    ],
    ids=["rational", "diagonal", "diagonal-missing", "random"],
)
def test_bad_builtin_family_exits_2(capsys, tmp_path, command, family, seed, message):
    argv = ["--builtin", family, "--seed", seed]
    if command == "bounds":
        argv = ["bounds", *argv, "--k", "10"]
    else:
        argv = ["scan", *argv, "--k-schedule", "4", "--method", "exact", "--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--k", "4"],
        ["bounds", "--k", "10", "--etk-m", "2"],
        ["dirichlet", "--q", "10"],
        ["badapprox", "--hmax", "10"],
        ["scan", "--k-schedule", "4,8", "--method", "exact", "--format", "csv"],
    ],
    ids=["dist", "bounds", "dirichlet", "badapprox", "scan"],
)
def test_absent_seed_takes_the_scan_config_default(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # scan writes its reports to the working directory
    argv = [*argv, "--builtin", "random", "--n", "1", "--d", "2"]
    runs = [run_cli(capsys, *argv, *seed) for seed in ([], ["--seed", "0"], ["--seed", "1"])]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    absent, zero, one = (out for _, out, _ in runs)
    assert absent == zero != one


def _no_row(*args, **kwargs):
    raise AssertionError("a row ran before the schedule and seed were checked")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--k-schedule", "4,4,8"], "k schedule repeats k = 4"),
        (["--k-schedule", "8,8,16,16"], "k schedule repeats k = 8, 16"),
        (["--method", "auto", "--seed", "-200000", "--k-schedule", "8,100000"],
         "seed -200000 puts the Monte Carlo key of k = 8, seed + k = -199992, outside [0, 2^128)"),
        (["--method", "mc", "--seed", "-9", "--k-schedule", "8,16"],
         "seed -9 puts the Monte Carlo key of k = 8, seed + k = -1, outside [0, 2^128)"),
        (["--method", "mc", "--seed", str(2**128 - 8), "--k-schedule", "4,8"],
         f"seed {2**128 - 8} puts the Monte Carlo key of k = 8, seed + k = {2**128}, outside"),
        (["--method", "mc", "--k-schedule", "pow2:0..63"],
         f"k = {2**63} is past 2^63 - 1, the largest step count of a Monte Carlo row"),
        (["--method", "auto", "--k-schedule", "pow2:0..200"], f"k = {2**200} is past 2^63 - 1"),
        (["--k-schedule", "pow2:a..b"], "error: bad pow2 schedule 'pow2:a..b'"),
    ],
    ids=[
        "repeat", "repeats", "auto-negative", "mc-key-minus-1", "mc-past-2^128", "mc-past-2^63",
        "auto-past-2^63", "unparsed",
    ],
)
def test_scan_checks_schedule_and_seed_before_any_row(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.setattr("toruswalk.scan.exact_walk_distribution", _no_row)
    monkeypatch.setattr("toruswalk.scan.simulate_walk", _no_row)
    code, out, err = run_cli(
        capsys, "scan", "--builtin", "golden", "--trials", "1000", *argv, "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert message in err
    assert not (tmp_path / "report.json").exists()


def test_scan_takes_a_negative_seed_whose_keys_are_in_range(capsys, tmp_path):
    # seed -1 keys the one row, k = 8, with 7
    argv = ["scan", "--builtin", "golden", "--method", "mc", "--trials", "100", "--seed", "-1"]
    code, out, err = run_cli(capsys, *argv, "--k-schedule", "8", "--out", str(tmp_path))
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == -1 and [row["method"] for row in report["rows"]] == ["mc"]


def test_scan_json_format_prints_the_bytes_of_report_json(capsys, tmp_path):
    argv = ["scan", "--builtin", "golden", "--k-schedule", "pow2:14..16", "--ca", "0.4", "--hmax", "100"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(tmp_path))
    assert code == 0
    assert out == (tmp_path / "report.json").read_text(encoding="utf-8")


def test_scan_exact_method_takes_any_seed(capsys, tmp_path):
    # only Monte Carlo rows key Philox with the seed
    code, _, _ = run_cli(
        capsys, "scan", "--builtin", "golden", "--method", "exact", "--seed", "-5",
        "--k-schedule", "4,8", "--out", str(tmp_path),
    )
    assert code == 0


def test_scan_csv_header_is_the_row_fields():
    names = [f.name for f in dataclasses.fields(ScanRow)]
    for ca in (None, 0.437):
        report = run_scan(ScanConfig(builtin="golden", k_schedule=[256, 1024], ca=ca))
        header, *rows = report.to_csv().splitlines()
        assert header.split(",") == names
        for line, row in zip(rows, report.rows, strict=True):
            cells = dict(zip(names, line.split(","), strict=True))
            assert cells["k"] == str(row.k) and float(cells["discrepancy"]) == row.discrepancy
            assert cells["upper"] == ("" if ca is None else "%.17g" % row.upper)
            assert cells["M"] == ("" if ca is None else str(row.M))


def test_scan_auto_falls_back_to_mc_past_the_bit_cap(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--method", "auto", "--k-schedule", "10000000000",
        "--trials", "1000", "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [(r["k"], r["method"]) for r in rows] == [(10**10, "mc")]


def test_scan_auto_falls_back_to_mc_when_the_projection_is_refused(capsys, tmp_path, monkeypatch):
    # the walk is admitted, but a 56-bit mantissa sends the projection to
    # exact counts, which the budget refuses at k = 10^6
    monkeypatch.setattr(walk, "_MANT", 56)
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--method", "auto", "--k-schedule", "4096,1000000",
        "--trials", "1000", "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [(r["k"], r["method"]) for r in rows] == [(4096, "exact"), (10**6, "mc")]


def test_scan_exact_past_the_bit_cap_exits_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--method", "exact", "--k-schedule", "10000000000",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "simulate_walk" in err


def test_scan_grid_over_the_budget_exits_3_at_once(capsys, tmp_path, monkeypatch):
    # 101 atoms in d = 3: exact and grid(512) are both far over the budget
    def no_blocks(*args):
        raise AssertionError("boxes were enumerated")

    monkeypatch.setattr("toruswalk.discrepancy._blocks", no_blocks)
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "sqrt_primes", "--n", "1", "--d", "3",
        "--k-schedule", "100", "--out", str(tmp_path),
    )
    assert code == 3
    assert "grid(512) discrepancy of 101 atoms" in err and "coarser --resolution" in err


def test_scan_labels_exact_then_grid_by_cost(capsys, tmp_path):
    # 121 atoms fit exact discrepancy; at 441 atoms only grid(512) fits the budget
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "sqrt_primes", "--n", "2", "--d", "2",
        "--k-schedule", "10,20", "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [(r["k"], r["method"], r["disc_method"]) for r in rows] == [
        (10, "exact", "exact"), (20, "exact", "grid(512)")
    ]


def test_exit_code_infeasible(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--k-schedule", "16",
        "--ca", "0.437", "--out", str(tmp_path),
    )
    assert code == 3
    assert "too small" in err


def test_infeasible_ca_fails_before_the_walk(capsys, tmp_path, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran before the bounds were checked")

    monkeypatch.setattr("toruswalk.scan.exact_walk_distribution", no_walk)
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "sqrt_primes", "--n", "2", "--d", "2",
        "--k-schedule", "20,21", "--ca", "0.1", "--out", str(tmp_path),
    )
    assert code == 3
    assert "truncation index" in err and "k=20 too small" in err
    assert not (tmp_path / "report.json").exists()


def test_dist_unwritable_out_exits_2(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.csv")
    code, out, err = run_cli(capsys, "dist", "--builtin", "golden", "--k", "2", "--out", target)
    assert code == 2
    assert "cannot write point-set file" in err and target in err and out == ""


@pytest.mark.parametrize("blocked", ["directory", "report"])
def test_scan_unwritable_out_exits_2(capsys, tmp_path, blocked):
    # a regular file where the output directory would be made, or a
    # directory where report.json would be written
    if blocked == "directory":
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        named = str(out_dir)
    else:
        out_dir = tmp_path
        (tmp_path / "report.json").mkdir()
        named = str(tmp_path / "report.json")
    code, _, err = run_cli(
        capsys, "scan", "--builtin", "golden", "--k-schedule", "4", "--out", str(out_dir)
    )
    assert code == 2
    assert "cannot" in err and named in err


@pytest.mark.parametrize("resolution", ["1", str(2**53 + 1)])
def test_scan_checks_resolution_before_any_row(capsys, tmp_path, monkeypatch, resolution):
    # every row here is exact, so before the up-front check only a later
    # grid row would have seen the resolution
    def no_walk(*args, **kwargs):
        raise AssertionError("a row ran before the resolution was checked")

    monkeypatch.setattr("toruswalk.scan.exact_walk_distribution", no_walk)
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "sqrt_primes", "--n", "2", "--d", "2", "--method", "exact",
        "--k-schedule", "4,20", "--resolution", resolution, "--out", str(tmp_path),
    )
    assert code == 2
    assert "grid resolution must be >= 2 and <= 2**53" in err
    assert not (tmp_path / "report.json").exists()


def test_scan_writes_reports(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--k-schedule", "pow2:4..8",
        "--out", str(tmp_path), "--svg",
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["rows"]) == 5
    assert report["rows"][0]["k"] == 16
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("k,method,")
    assert (tmp_path / "report.svg").read_text().startswith("<svg")


def test_scan_svg_bytes_are_pinned(tmp_path, capsys):
    # with --ca the chart draws all four series: D, lower, upper and etk
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--k-schedule", "pow2:8..11", "--ca", "0.4",
        "--out", str(tmp_path), "--svg",
    )
    svg = (tmp_path / "report.svg").read_bytes()
    assert code == 0 and svg.count(b"<polyline") == 4
    assert (len(svg), hashlib.sha256(svg).hexdigest()) == (
        2310, "f328000cd865c65cb0ce9e4a1c498bc0d973c921334dca04942c7be6e6384346"
    )


def test_one_k_scan_svg_centres_its_degenerate_x_range(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "scan", "--builtin", "golden", "--k-schedule", "64", "--out", str(tmp_path), "--svg"
    )
    svg = (tmp_path / "report.svg").read_text()
    assert code == 0 and svg.count("<circle") == 2  # D and lower, one point each
    lx = math.log10(64)
    assert f"log10 k [{lx - 0.5:.6g} .. {lx + 0.5:.6g}]" in svg


@pytest.mark.parametrize(
    "series,names",
    [
        ({"D": [(8, 0.2), (16, 0.1)], "etk": [(8, 0.0)]}, ["D"]),
        ({"D": [(8, 0.2)], "lower": [(8, 0.01)], "upper": [(8, None)], "etk": [(8, None)]}, ["D", "lower"]),
        ({"D": [(8, 0.2), (16, -1.0)], "upper": [(8, 0.5), (16, 0.4)]}, ["D", "upper"]),
    ],
    ids=["zero-series", "no-ca-series", "nonpositive-point"],
)
def test_chart_draws_and_names_only_series_with_a_point(series, names):
    svg = loglog_svg(series)
    assert svg.count("<polyline") == len(names)
    assert re.findall(r'font-size="12" fill="#\w+">(\w+)</text>', svg) == names
    assert svg.count("<circle") == sum(
        1 for data in series.values() for x, y in data if y is not None and y > 0
    )


@pytest.mark.parametrize("series", [{}, {"D": [(8, 0.0)], "etk": [(8, None)]}], ids=["no-series", "no-point"])
def test_chart_with_no_point_is_refused(series):
    with pytest.raises(ValueError, match="nothing to plot"):
        loglog_svg(series)


def test_no_svg_flag_overrides_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("builtin = golden\nk_schedule = 4,8\nsvg = true\nout = %s\n" % tmp_path)
    code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--no-svg")
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.svg").exists()
    code, _, _ = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 0 and (tmp_path / "report.svg").exists()


def test_scan_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "builtin = golden\nk_schedule = 4,8,16\nseed = 9\nout = %s\n" % tmp_path
    )
    code, out, _ = run_cli(
        capsys, "scan", "--config", str(cfg), "--k-schedule", "4,8,16,32"
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["k"] for r in report["rows"]] == [4, 8, 16, 32]
    assert report["seed"] == 9
    # a given --seed overrides the file's
    code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--seed", "7")
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == 7


def test_scan_flags_override_every_config_field(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("builtin = sqrt_primes\nn = 2\nd = 1\nk_schedule = 4\nout = %s\n" % tmp_path)
    code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--n", "3", "--d", "2")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["n"], report["d"]) == (3, 2)
    # a builtin given without --n keeps the file's n
    code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--builtin", "sqrt_primes")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["n"], report["d"]) == (2, 1)


def test_scan_determinism(tmp_path):
    cfg = ScanConfig(builtin="golden", k_schedule=[16, 64, 256], seed=3)
    a, b = run_scan(cfg), run_scan(cfg)
    assert a.to_csv() == b.to_csv()
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("generated_at")
    db.pop("generated_at")
    assert json.dumps(da) == json.dumps(db)


@pytest.mark.parametrize(
    "k_schedule,method,message",
    [
        ([], "auto", "empty k schedule"),
        ([0, 4], "auto", "k schedule entries must be >= 1"),
        ([4], "fast", "unknown method policy 'fast'"),
    ],
    ids=["empty", "k-0", "unknown-method"],
)
def test_scan_bad_schedule_or_method_rejected(k_schedule, method, message):
    with pytest.raises(ValidationError, match=message):
        run_scan(ScanConfig(builtin="golden", k_schedule=k_schedule, method=method))


def test_parse_k_schedule():
    assert parse_k_schedule("1, 2,3") == [1, 2, 3]
    assert parse_k_schedule("pow2:2..4") == [4, 8, 16]
    assert parse_k_schedule("pow2:1023..1023") == [2**1023]


@pytest.mark.parametrize(
    "text,message",
    [
        ("pow2:a..b", "bad pow2 schedule"),
        ("pow2:5..3", "upper exponent below lower"),
        ("1,x", "bad k schedule '1,x'"),
    ],
)
def test_parse_k_schedule_rejects(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_k_schedule(text)


def test_parse_config_errors():
    with pytest.raises(ValidationError):
        parse_config_text("nonsense line\n")
    with pytest.raises(ValidationError):
        parse_config_text("unknown_key = 3\n")
    cfg = parse_config_text("# comment\nseed = 12\nsvg = true\n")
    assert cfg.seed == 12 and cfg.svg is True


@pytest.mark.parametrize(
    "text,value", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)]
)
def test_config_boolean_reads_both_ways(text, value):
    assert parse_config_text(f"svg = {text}\n").svg is value


def test_config_boolean_rejects_other_text(capsys, tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("builtin = golden\nk_schedule = 2,4\nsvg = on\n")
    code, out, err = run_cli(capsys, "scan", "--config", str(config), "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "config line 3" in err and "'on'" in err
    assert not (tmp_path / "report.json").exists()


def test_scan_mc_method(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--k-schedule", "8,16,32",
        "--method", "mc", "--trials", "20000", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(r["method"] == "mc" for r in report["rows"])


def test_mc_slack_meets_its_confidence():
    for trials in (1, 2, 1000, 10**5):
        e = _mc_slack(1, trials)  # DKW with Massart's constant, on half the slack
        assert 2.0 * math.exp(-2.0 * trials * (e / 2.0) ** 2) == pytest.approx(_MC_DELTA)
        for d in (2, 3):
            e, V = _mc_slack(d, trials), 2 * d
            shatter = 2.0 ** (2 * trials) if 2 * trials < V else (math.e * 2 * trials / V) ** V
            assert 4.0 * shatter * math.exp(-trials * e**2 / 8.0) == pytest.approx(_MC_DELTA)
    assert round(_mc_slack(1, 10**5), 4) == 0.0207
    assert round(_mc_slack(2, 10**5), 4) == 0.0745


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("past", [False, True])
def test_mc_row_past_its_slack_exits_4(capsys, tmp_path, monkeypatch, d, past):
    # a Monte Carlo row's exact discrepancy moved just inside, or just past,
    # its slack below Theorem 1's lower bound
    n, k, trials = 2, 64, 1000
    lower = theorem1_lower_bound(n, d, k)
    slack = _mc_slack(d, trials)
    D = lower - slack + (-1e-6 if past else 1e-6)
    monkeypatch.setattr("toruswalk.scan.discrepancy_exact", lambda P: SimpleNamespace(value=D))
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "sqrt_primes", "--n", str(n), "--d", str(d), "--method", "mc",
        "--k-schedule", str(k), "--trials", str(trials), "--out", str(tmp_path),
    )
    assert code == (4 if past else 0)
    assert ("bound violation at k=64" in err) == past


def test_python_m_toruswalk_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "toruswalk", "scan", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "--k-schedule" in done.stdout


def test_parser_is_built_once_and_calls_get_their_own_namespace(capsys, tmp_path, monkeypatch):
    from toruswalk import cli

    def spy(args):
        seen.append(args)
        return commands[args.command](args)

    seen, commands = [], {name: handler for name, (_, _, handler) in cli._SUBCOMMANDS.items()}
    for name in ("scan", "bounds"):
        help_text, add_args, _ = cli._SUBCOMMANDS[name]
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, add_args, spy))
    assert cli.build_parser(["scan"]) is cli.build_parser(["bounds"])  # one parser serves every command
    scan = ["scan", "--builtin", "golden", "--out", str(tmp_path), "--format", "json"]
    bounds = ["bounds", "--builtin", "golden", "--k", "10"]
    assert run_cli(capsys, *scan, "--k-schedule", "4,8")[0] == 0
    assert run_cli(capsys, *bounds)[0] == 0
    config = tmp_path / "scan.cfg"
    config.write_text("k_schedule = 2,3\n")
    code, out, _ = run_cli(capsys, *scan, "--config", str(config))
    assert code == 0
    first, second, third = seen
    # argparse parsed the first namespace's schedule to a list; the
    # namespaces that follow start from the parser's defaults
    assert first.k_schedule == [4, 8]
    assert not hasattr(second, "k_schedule") and second.k == 10
    assert third.k_schedule is None
    assert [row["k"] for row in json.loads(out)["rows"]] == [2, 3]


# Help texts, the version, and argparse's refusals: with arguments added
# only for the subcommand named, each must read as with every argument.
PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["--version"], ["bogus"], ["-", "dist"], ["-1", "scan"], ["--bogus", "scan"],
    *[[name, "--help"] for name in ("dist", "disc", "bounds", "dirichlet", "badapprox", "scan")],
    ["dist"], ["dist", "--k", "two"], ["disc"], ["bounds", "--k", "3", "--bogus", "1"],
    ["dirichlet", "--builtin", "golden"], ["badapprox", "--hmax"], ["scan", "--method", "slow"],
    ["scan", "--format"], ["scan", "--k-schedule", "pow2:5..3"], ["scan", "--svg=1"],
]


def _parsed(capsys, argv):
    from toruswalk import cli

    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_each_command_gets_only_its_own_arguments_and_parses_as_the_full_parser(capsys):
    from toruswalk import cli

    alone = []
    for argv in PARSER_ARGVS:
        cli._parser.cache_clear()
        alone.append(_parsed(capsys, argv))
    cli.build_parser(["scan", "--help"])
    assert cli._parser()[2] == {"scan"}
    for name in cli._SUBCOMMANDS:
        cli.build_parser([name])
    assert all(len(p._actions) > 1 for p in cli._parser()[1].values())  # every argument, beside -h
    assert [_parsed(capsys, argv) for argv in PARSER_ARGVS] == alone
    assert {code for code, _, _ in alone} == {0, 2}
