"""Generator matrices for torus walks.

A generator matrix holds n row vectors in [0,1)^d; the walk adds or
subtracts a uniformly chosen row at each step.  Entries are stored as
doubles and every downstream computation is a statement about the stored
values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, read_input_text


def frac(x: float) -> float:
    """Fractional part in [0,1).  Guards against x - floor(x) rounding up to 1.0."""
    f = x - math.floor(x)
    return 0.0 if f >= 1.0 else f


@dataclass(frozen=True)
class GeneratorMatrix:
    """n rows of d coordinates, each reduced to [0,1).  Immutable."""

    entries: tuple[tuple[float, ...], ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def d(self) -> int:
        return len(self.entries[0])

    def row(self, j: int) -> tuple[float, ...]:
        return self.entries[j]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def load_generators(rows) -> GeneratorMatrix:
    """Validate and mod-1 reduce a list of equal-length real rows.

    Zero rows and duplicate rows are legal but flagged in ``warnings``.
    """
    rows = [tuple(float(v) for v in r) for r in rows]
    if not rows:
        raise ValidationError("generator matrix needs at least one row")
    d = len(rows[0])
    if d < 1:
        raise ValidationError("generator rows need at least one coordinate")
    if any(len(r) != d for r in rows):
        raise ValidationError("generator rows have inconsistent lengths")
    if any(not math.isfinite(v) for r in rows for v in r):
        raise ValidationError("generator entries must be finite")

    reduced = tuple(tuple(frac(v) for v in r) for r in rows)
    warnings = []
    for j, r in enumerate(reduced):
        if all(v == 0.0 for v in r):
            warnings.append(f"row {j} is the zero vector")
    seen: dict[tuple, int] = {}
    for j, r in enumerate(reduced):
        if r in seen:
            warnings.append(f"rows {seen[r]} and {j} are identical")
        else:
            seen[r] = j
    return GeneratorMatrix(entries=reduced, warnings=tuple(warnings))


GOLDEN = frac((1.0 + math.sqrt(5.0)) / 2.0)

_FAMILY_RE = re.compile(r"^([a-z_]+)(?:[:(]([^)]*)\)?)?$")


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def builtin_generators(family: str, n: int, d: int, seed: int | None = None) -> GeneratorMatrix:
    """Construct one of the built-in matrix families.

    family is one of ``golden``, ``sqrt_primes``, ``rational(q)``,
    ``diagonal(x)``, ``random``; the parameter may also be given with a
    colon (``rational:3``).  ``random`` requires a seed and is
    reproducible across runs and platforms for a fixed seed.
    """
    if n < 1 or d < 1:
        raise ValidationError("n and d must be positive")
    m = _FAMILY_RE.match(family.strip())
    if not m:
        raise ValidationError(f"unparseable family {family!r}")
    name, param = m.group(1), m.group(2)

    if name == "golden":
        if n != 1 or d != 1:
            raise ValidationError("golden family requires n = d = 1")
        return load_generators([[GOLDEN]])
    if name == "sqrt_primes":
        primes = _first_primes(n * d)
        rows = [[frac(math.sqrt(primes[j * d + i])) for i in range(d)] for j in range(n)]
        return load_generators(rows)
    if name == "rational":
        if param is None:
            raise ValidationError("rational family needs a denominator, e.g. rational:3")
        q = int(param)
        if q < 1:
            raise ValidationError("rational denominator must be positive")
        rows = [[((j * d + i + 1) % q) / q for i in range(d)] for j in range(n)]
        return load_generators(rows)
    if name == "diagonal":
        if param is None:
            raise ValidationError("diagonal family needs a value, e.g. diagonal:0.7")
        if n != 1:
            raise ValidationError("diagonal family requires n = 1")
        x = float(param)
        return load_generators([[x] * d])
    if name == "random":
        if seed is None:
            raise ValidationError("random family requires a seed")
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        return load_generators(rng.random((n, d)).tolist())
    raise ValidationError(f"unknown generator family {name!r}")


def matrix_to_text(G: GeneratorMatrix) -> str:
    """One row per line, coordinates separated by spaces, 17 significant digits."""
    return "\n".join(" ".join("%.17g" % v for v in row) for row in G.entries) + "\n"


def parse_matrix_text(text: str) -> GeneratorMatrix:
    """Parse the matrix file format: '#' comments, comma or whitespace separators."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f for f in re.split(r"[,\s]+", line) if f]
        try:
            rows.append([float(f) for f in fields])
        except ValueError as e:
            raise ValidationError(f"bad matrix line {line!r}: {e}") from None
    return load_generators(rows)


def read_matrix(path) -> GeneratorMatrix:
    return parse_matrix_text(read_input_text(path, "matrix file"))


def write_matrix(path, G: GeneratorMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_to_text(G))
