"""Exception hierarchy shared by the library and the CLI, the guards that
read input files and write output files, the one reader of their data
lines and of their numeric rows, the one writer of JSON text, and the one
cost budget every layer checks before it starts.

Each class carries the process exit code the CLI maps it to.
"""

import dataclasses
import json
import math


class ToruswalkError(Exception):
    exit_code = 1


class ValidationError(ToruswalkError):
    """Bad user input: malformed matrices, out-of-range parameters, empty schedules."""

    exit_code = 2


class InfeasibleError(ToruswalkError):
    """The requested computation cannot be carried out with these parameters."""

    exit_code = 3


class CapExceededError(InfeasibleError):
    """A predicted cost exceeds BUDGET; the message names the supported fallback."""


class InternalConsistencyError(ToruswalkError):
    """A result contradicts an inequality that must hold; indicates a bug."""

    exit_code = 4


# The work any single call may do, in array element operations.  On a 2-core
# machine a discrepancy call priced just under it takes 0.2 s (grid(512),
# d=2) to 2.0 s (exact, d=3).
BUDGET = 80_000_000
# Element operations charged per element of a pass that makes a Python-level
# call for each one (math.cos, float power, a big-integer product).
PER_CALL = 64


def require(kind: str, cost, fallback: str) -> None:
    """Raise CapExceededError, naming the fallback, when cost > BUDGET.

    cost is the predicted number of element operations of the work named by
    kind; math.inf stands for work whose size cannot even be represented.
    """
    if cost > BUDGET:
        shown = f"{cost:.3g}" if cost < 1e308 else "over 1e308"  # no float holds a larger int
        raise CapExceededError(
            f"{kind} would cost {shown} element operations (budget {BUDGET:.3g}); use {fallback}"
        )


def read_input_text(path, kind: str) -> str:
    """Contents of a UTF-8 input file.  A file that cannot be opened (missing,
    a directory, unreadable) raises ValidationError naming kind and path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {kind} {str(path)!r}: {e.strerror}") from None


def data_lines(text: str):
    """(line number from 1, stripped line) of each line of an input file's
    text that is neither blank nor a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def numeric_rows(text: str, kind: str, split, minimum: int, check=None) -> list:
    """The rows of floats of an input file's data lines, each split into
    fields by split(line).  A line whose fields do not all parse as floats,
    number fewer than minimum or other than the first data line's, are not
    all finite, or of which check(row) names a problem, raises
    ValidationError naming kind, the line number and the line."""
    rows = []
    for lineno, line in data_lines(text):
        try:
            row = [float(f) for f in split(line)]
        except ValueError:
            problem = "a non-numeric field"
        else:
            if len(row) < minimum:
                problem = f"fewer than {minimum} field" + "s" * (minimum > 1)
            elif rows and len(row) != len(rows[0]):
                problem = f"{len(row)} fields, where the first data line has {len(rows[0])}"
            elif not all(map(math.isfinite, row)):
                problem = "a non-finite field"
            else:
                problem = check(row) if check else None
        if problem:
            raise ValidationError(f"{kind} line {lineno} has {problem}: {line!r}")
        rows.append(row)
    return rows


def json_text(record) -> str:
    """A dict, or a dataclass as its dict, as indented JSON with a final newline."""
    if dataclasses.is_dataclass(record):
        record = dataclasses.asdict(record)
    return json.dumps(record, indent=2) + "\n"


def write_output_text(path, text: str, kind: str) -> None:
    """Write text to a UTF-8 output file.  A file that cannot be written (its
    directory missing or unwritable, a directory in its place) raises
    ValidationError naming kind and path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {kind} {str(path)!r}: {e.strerror}") from None
