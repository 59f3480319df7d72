"""Pinned sha256 digests of the bytes the CLI writes: the scan reports,
`dist` point sets, the JSON that `disc`, `bounds`, `dirichlet` and
`badapprox` print, and the `--help` texts at 80 columns.

A change meant to keep every output byte fails here when it does not.
report.json is hashed without its generated_at line, the one field that
differs between runs.  The scan and badapprox argv are those of the
benchmark workloads (perfbench/workloads.py) at seed 1; the bounds calls
are the `bounds-d2` ones at a fixed c_a = 0.085, with M from the same
truncation index.  `{points}` in an argv stands for the point set that
`dist` writes for the sqrt_primes n = d = 2 walk at k = 10.
"""

import hashlib

import pytest

from toruswalk.cli import main

SQRT_PRIMES_D2 = ["--builtin", "sqrt_primes", "--n", "2", "--d", "2"]
BADAPPROX_RANDOM = ["badapprox", "--builtin", "random", "--n", "2", "--d", "2", "--hmax", "20"]

SCANS = {
    "disc-d2": (
        [*SQRT_PRIMES_D2, "--method", "exact", "--k-schedule", "4,6,8,10,20", "--resolution", "512"],
        "f139adc9551970931578dd27c20102e92262e2f1f9cdd43520552677e869677f",
        "8dc72293b2324ef48fb78b32eac407783dce452151c3986eecfeb085439720e1",
    ),
    "mc-d1": (
        ["--builtin", "sqrt_primes", "--n", "2", "--d", "1", "--method", "mc",
         "--k-schedule", "1024", "--trials", "100000"],
        "9e9b0e56634128e5fda34a9b159f53bc7a875d0f4cc8769b4896d52ead0c0633",
        "6d21d7ed20a671e40c877e8c74f2d57684774e1537762a07a4fa3e73accddca0",
    ),
    "walk-d1": (
        ["--builtin", "golden", "--method", "exact", "--k-schedule", "pow2:8..15",
         "--ca", "0.4", "--hmax", "100000"],
        "66327daac0d17dbbca49e2d2166d7567b0c170a2a4d38279634e1f75bde901fa",
        "3705b2de748dde596021e145a99816b509197794d6dc106e72cea679cc5c5fa6",
    ),
}

# (k, M, stdout digest) of the bounds-d2 calls at c_a = 0.085
BOUNDS = [
    (10**6, 7, "ec682eb95c8d1fbdb38c670f204f1d609fa01038ba1186ea306ce7c888814544"),
    (3 * 10**6, 13, "469c22360266d13f4fe8a2f865c7efa77493eb944612072d28a991bdd394a4d1"),
    (10**7, 23, "5e274f6e8719e66e2f69a6254ac2bd3cbea2cc2fb384325f8f16df202a330979"),
    (3 * 10**7, 41, "d1e42c088309950358841a907117d06ed52104a2c93c91e218f7fe89cebbdc58"),
    (10**8, 75, "12e124648aeb598828a13cac7b03a3a52005bf2fd1ff0fe1382ee5ae23d9fedb"),
    (2 * 10**8, 106, "3f22ad35d6cb32c320f12e426f82d0b36586876296ddaea5e5d0223ae00df6a5"),
]

# stdout of --help at COLUMNS=80, by subcommand ([] for the top level), in
# the argparse layout of Python 3.11, the version CI runs
HELP = [
    ([], "13c9866f87a7edd2916e6ebac1e4353904d230b69893e0daea2b6789a10d44e4"),
    (["dist"], "af5e6a6a45bba93387a5374c25c4238f0af084813aa98c65aaae2acc011b46b1"),
    (["disc"], "2fee609aeded43fe69b4ce800032d0ccde2a0bdffd08b55f9cb410ae51f16f50"),
    (["bounds"], "7652746c0f444628c32fc36df57a85ea96155c2d457c39a33dc8359b00eca1ed"),
    (["dirichlet"], "d1c5e9afed7732620696fb6a138dec79531e026773bd5023b57d5272fbf7a6de"),
    (["badapprox"], "e919b4a785fe36a762db8a6b19dd8b04b7609521232cbe32eab4e081054ad7e2"),
    (["scan"], "249e96f0332379d39f262c645fbd22cd0d6205a83bbd9d6c1d3435ac86fc6882"),
]

PRINTED = {
    "badapprox-golden": (
        ["badapprox", "--builtin", "golden", "--hmax", "100000"],
        "9cf225e37be3005f07b5ac66f58e1038f677db90d6995bdf89fe956d08725ed3",
    ),
    "badapprox-sqrt-primes": (
        ["badapprox", *SQRT_PRIMES_D2, "--hmax", "999"],
        "8d1927ff96701e4677f3d9fc52ec9776206e9dbec8ff34f3f91923e2894d7f89",
    ),
    **{
        f"bounds-k{k}": (
            ["bounds", *SQRT_PRIMES_D2, "--k", str(k), "--ca", "0.085", "--ca-hmax", "999",
             "--etk-m", str(M)],
            digest,
        )
        for k, M, digest in BOUNDS
    },
    "bounds-probe": (
        ["bounds", *SQRT_PRIMES_D2, "--k", "200", "--ca", "4.0", "--etk-m", "5"],
        "1373e103aa3feb8fb00c42c2c65dc66c1cebfd72d5ea331939fde261ca8014a3",
    ),
    "dist-golden": (
        ["dist", "--builtin", "golden", "--k", "4096"],
        "1d3763d5466722b35e0e39f105531db58e4f3ca516db3ce7746dfc26ac5c7bca",
    ),
    "dist-sqrt-primes": (
        ["dist", *SQRT_PRIMES_D2, "--k", "10"],
        "d36353d476f49e42d2c654f21a69909b7bc79a6d66324c19bc7dd42de5552a78",
    ),
    "dist-mc": (
        ["dist", "--builtin", "sqrt_primes", "--n", "2", "--d", "1", "--k", "64",
         "--trials", "1000", "--seed", "3"],
        "7f9c2ed5e276e9ad510cff15180ad71d76ddef1bd6cb8c2413cd86faa1b9c423",
    ),
    # one generator: each trial's draw is a single Binomial(k, 1/2)
    "dist-mc-golden": (
        ["dist", "--builtin", "golden", "--k", "100", "--trials", "100000", "--seed", "3"],
        "d52f5000e4e4262a99bb00f7165f0a932788efbe2b831fcb8fdf1831f715e623",
    ),
    "disc-exact": (
        ["disc", "{points}"],
        "8d8e64ee6f56c2661be585365e9246ba7c9389d70f6657358b0cc9fa92b50d81",
    ),
    "disc-grid": (
        ["disc", "{points}", "--resolution", "64"],
        "52ac242ff01cbf883f7ae43bc3eefc352370b91282a95cf1d25e088d39c5cd7f",
    ),
    "dirichlet-golden": (
        ["dirichlet", "--builtin", "golden", "--q", "1000"],
        "abfec76ac248c287640e7a2b1f29c43ccf78bd07ecaff73757049b5ac436d6e9",
    ),
    "dirichlet-sqrt-primes": (
        ["dirichlet", *SQRT_PRIMES_D2, "--q", "30"],
        "78b30073b069f7b1717b0c5990ce39f8d6e53a7463efaa653b7ffa430d16e1db",
    ),
    # an absent --seed is ScanConfig's seed 0
    "badapprox-random": (
        BADAPPROX_RANDOM,
        "ffae2316812716fcbca464dd0472ec3556379b73062794eb35070444b491e546",
    ),
    "badapprox-random-seed-0": (
        [*BADAPPROX_RANDOM, "--seed", "0"],
        "ffae2316812716fcbca464dd0472ec3556379b73062794eb35070444b491e546",
    ),
    "badapprox-random-seed-5": (
        [*BADAPPROX_RANDOM, "--seed", "5"],
        "85545440667500c4f1ee16febf6870c8dfe8583c694e17596e7d04fb2a747405",
    ),
    **{
        f"help-{cmd[0] if cmd else 'toruswalk'}": ([*cmd, "--help"], digest)
        for cmd, digest in HELP
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, argv) -> str:
    try:
        assert main(argv) == 0
    except SystemExit as e:  # argparse exits after printing --help
        assert e.code == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def points(tmp_path_factory):
    path = tmp_path_factory.mktemp("dist") / "points.csv"
    assert main(["dist", *SQRT_PRIMES_D2, "--k", "10", "--out", str(path)]) == 0
    return str(path)


def _unstamped(report_json: bytes) -> bytes:
    lines = report_json.splitlines(keepends=True)
    stamp = [line for line in lines if line.lstrip().startswith(b'"generated_at"')]
    assert len(stamp) == 1
    return b"".join(line for line in lines if line not in stamp)


@pytest.mark.parametrize("name", list(SCANS))
def test_scan_report_bytes_are_pinned(tmp_path, capsys, name):
    argv, csv_sha, json_sha = SCANS[name]
    _stdout(capsys, ["scan", *argv, "--seed", "1", "--out", str(tmp_path), "--format", "json"])
    csv = (tmp_path / "report.csv").read_bytes()
    report = _unstamped((tmp_path / "report.json").read_bytes())
    assert (_sha(csv), _sha(report)) == (csv_sha, json_sha)


@pytest.mark.parametrize("name", list(PRINTED))
def test_printed_bytes_are_pinned(capsys, monkeypatch, points, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    argv, digest = PRINTED[name]
    argv = [a.format(points=points) for a in argv]
    assert _sha(_stdout(capsys, argv).encode()) == digest


def test_scan_csv_format_prints_the_csv_report(tmp_path, capsys):
    argv, csv_sha, _ = SCANS["disc-d2"]
    out = _stdout(capsys, ["scan", *argv, "--seed", "1", "--out", str(tmp_path), "--format", "csv"])
    assert out == (tmp_path / "report.csv").read_text() and _sha(out.encode()) == csv_sha
