"""Exception hierarchy shared by the library and the CLI, and the input
guards that raise it.

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
    """A resource guard tripped; the message names the supported fallback."""


class InternalConsistencyError(ToruswalkError):
    """A result contradicts an inequality that must hold; indicates a bug."""

    exit_code = 4


def check_box_size(kind: str, bound: int, d: int, cap: int) -> None:
    """Raise CapExceededError when the (2*bound+1)^d integer vectors of sup
    norm <= bound exceed cap; kind names the box in the message."""
    size = (2 * bound + 1) ** d
    if size > cap:
        raise CapExceededError(f"{kind} box has {size} vectors (cap {cap})")


def read_input_text(path, kind: str) -> str:
    """Contents of a UTF-8 input file.  A file that cannot be opened (missing,
    a directory, unreadable) raises ValidationError naming kind and path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {kind} {str(path)!r}: {e.strerror}") from None
