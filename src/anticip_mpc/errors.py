"""Exception types shared across the package, and the one JSON input reader."""

import json


class InvalidInputError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


class SolverError(RuntimeError):
    """Raised when the trajectory optimizer cannot continue (diagnostics in args)."""


def read_json(path, what: str) -> dict:
    """The JSON object in `path`; every input file of the package holds one.

    A missing, unreadable or malformed file, or one whose top level is not an
    object, raises InvalidInputError naming `what` and the path.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"{what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} {path}: expected a JSON object, got {type(data).__name__}")
    return data
