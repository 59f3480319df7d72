import json

import pytest

from toruswalk.cli import main
from toruswalk.scan import ScanConfig, parse_config_text, parse_k_schedule, run_scan
from toruswalk.errors import ValidationError


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


def test_scan_auto_falls_back_to_mc_past_the_bit_cap(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--method", "auto", "--k-schedule", "1000000",
        "--trials", "1000", "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [(r["k"], r["method"]) for r in rows] == [(1000000, "mc")]


def test_scan_exact_past_the_bit_cap_exits_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--method", "exact", "--k-schedule", "1000000",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "simulate_walk" in err


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


def test_scan_determinism(tmp_path):
    cfg = ScanConfig(builtin="golden", k_schedule=[16, 64, 256], seed=3)
    a, b = run_scan(cfg), run_scan(cfg)
    assert a.to_csv() == b.to_csv()
    da, db = a.to_dict(), b.to_dict()
    da.pop("generated_at")
    db.pop("generated_at")
    assert json.dumps(da) == json.dumps(db)


def test_scan_empty_schedule_rejected():
    with pytest.raises(ValidationError):
        run_scan(ScanConfig(builtin="golden"))


def test_parse_k_schedule():
    assert parse_k_schedule("1, 2,3") == [1, 2, 3]
    assert parse_k_schedule("pow2:2..4") == [4, 8, 16]
    with pytest.raises(ValidationError):
        parse_k_schedule("pow2:a..b")


def test_parse_config_errors():
    with pytest.raises(ValidationError):
        parse_config_text("nonsense line\n")
    with pytest.raises(ValidationError):
        parse_config_text("unknown_key = 3\n")
    cfg = parse_config_text("# comment\nseed = 12\nsvg = true\n")
    assert cfg.seed == 12 and cfg.svg is True


def test_scan_mc_method(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "scan", "--builtin", "golden", "--k-schedule", "8,16,32",
        "--method", "mc", "--trials", "20000", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(r["method"] == "mc" for r in report["rows"])
