"""Exception hierarchy shared by the library and the CLI, the guards that
read input files and write output files, the one reader of their data
lines, and the one cost budget every layer checks before it starts.

Each class carries the process exit code the CLI maps it to.
"""


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


def write_output_text(path, text: str, kind: str) -> None:
    """Write text to a UTF-8 output file.  A file that cannot be written (its
    directory missing or unwritable, a directory in its place) raises
    ValidationError naming kind and path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {kind} {str(path)!r}: {e.strerror}") from None
