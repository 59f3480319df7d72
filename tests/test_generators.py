import math

import pytest

from toruswalk import (
    ValidationError,
    builtin_generators,
    load_generators,
    matrix_to_text,
    parse_matrix_text,
    read_matrix,
    write_matrix,
)
from toruswalk.generators import _first_primes


def test_mod_one_reduction():
    G = load_generators([[1.5, -0.25]])
    assert G.n == 1 and G.d == 2
    assert G.entries == ((0.5, 0.75),)
    assert G.warnings == ()


def test_zero_generator_warning():
    G = load_generators([[0.0]])
    assert G.entries == ((0.0,),)
    assert any("zero" in w for w in G.warnings)


def test_golden_passthrough():
    G = load_generators([[0.618033988749895]])
    assert G.entries == ((0.618033988749895,),)
    assert G.warnings == ()


def test_duplicate_rows_warn_but_load():
    G = load_generators([[0.3, 0.4], [0.3, 0.4]])
    assert G.n == 2
    assert any("identical" in w for w in G.warnings)


@pytest.mark.parametrize(
    "rows",
    [[], [[]], [[0.1], [0.2, 0.3]], [[float("nan")]], [[float("inf"), 0.0]]],
)
def test_invalid_inputs_rejected(rows):
    with pytest.raises(ValidationError):
        load_generators(rows)


def test_builtin_golden():
    G = builtin_generators("golden", 1, 1)
    assert G.entries[0][0] == pytest.approx(0.618033988749895, abs=1e-15)
    with pytest.raises(ValidationError):
        builtin_generators("golden", 2, 1)


def test_builtin_sqrt_primes():
    G = builtin_generators("sqrt_primes", 1, 2)
    assert G.entries[0][0] == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    assert G.entries[0][1] == pytest.approx(math.sqrt(3) - 1, abs=1e-15)
    G22 = builtin_generators("sqrt_primes", 2, 2)
    assert G22.entries[1][1] == pytest.approx(math.sqrt(7) - 2, abs=1e-15)


def test_first_primes_are_the_primes_in_order():
    primes = _first_primes(300)
    assert primes == [p for p in range(2, primes[-1] + 1) if all(p % q for q in range(2, p))]


def test_builtin_rational():
    G = builtin_generators("rational(3)", 1, 1)
    assert G.entries == ((1.0 / 3.0,),)
    G2 = builtin_generators("rational:4", 2, 2)
    assert all(v in (0.0, 0.25, 0.5, 0.75) for row in G2.entries for v in row)


def test_builtin_diagonal():
    G = builtin_generators("diagonal:0.7", 1, 3)
    assert G.entries == ((0.7, 0.7, 0.7),)
    with pytest.raises(ValidationError):
        builtin_generators("diagonal:0.7", 2, 3)


def test_builtin_random_reproducible():
    a = builtin_generators("random", 3, 2, seed=42)
    b = builtin_generators("random", 3, 2, seed=42)
    c = builtin_generators("random", 3, 2, seed=43)
    assert a.entries == b.entries
    assert a.entries != c.entries
    with pytest.raises(ValidationError):
        builtin_generators("random", 3, 2)


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("fibonacci", 1, "unknown generator family"),
        ("golden", 0, "n and d must be positive"),
        ("golden!", 1, "unparseable family"),
        ("rational:0", 1, "rational denominator must be positive"),
    ],
)
def test_unknown_family(family, n, message):
    with pytest.raises(ValidationError, match=message):
        builtin_generators(family, n, 1)


def test_serialize_round_trip():
    G = builtin_generators("random", 4, 3, seed=7)
    back = parse_matrix_text(matrix_to_text(G))
    assert back.entries == G.entries


def test_write_matrix_round_trip(tmp_path):
    G = builtin_generators("sqrt_primes", 2, 3)
    write_matrix(tmp_path / "G.txt", G)
    assert read_matrix(tmp_path / "G.txt").entries == G.entries


@pytest.mark.parametrize("name", [".", "missing/G.txt"])
def test_write_matrix_to_an_unwritable_path_is_invalid_input(tmp_path, name):
    path = tmp_path / name  # a directory, or a file in a missing directory
    with pytest.raises(ValidationError, match="cannot write matrix file") as caught:
        write_matrix(path, builtin_generators("golden", 1, 1))
    assert str(path) in str(caught.value)


def test_parse_comments_and_commas():
    G = parse_matrix_text("# a comment\n0.1, 0.2\n0.3\t0.4\n\n")
    assert G.entries == ((0.1, 0.2), (0.3, 0.4))
    # a bad line is named by its number, counting comment and blank lines
    with pytest.raises(ValidationError, match="matrix line 3 has a non-numeric field: '0.1, abc'"):
        parse_matrix_text("# a comment\n\n0.1, abc\n")
    # as are a line with no number and a row whose length differs from the first's
    with pytest.raises(ValidationError, match="matrix line 2 has fewer than 1 field: ',,'"):
        parse_matrix_text("0.1, 0.2\n,,\n")
    message = "matrix line 4 has 1 fields, where the first data line has 2: '0.5'"
    with pytest.raises(ValidationError, match=message):
        parse_matrix_text("0.1 0.2\n# a comment\n0.3 0.4\n0.5\n")


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_a_non_finite_matrix_entry_names_its_line(entry):
    with pytest.raises(ValidationError, match=f"matrix line 3 has a non-finite field: '0.1 {entry}'"):
        parse_matrix_text(f"0.1 0.2\n# a comment\n0.1 {entry}\n")
    with pytest.raises(ValidationError, match="generator entries must be finite"):
        load_generators([[0.1, 0.2], [0.1, float(entry)]])  # direct callers keep their check
