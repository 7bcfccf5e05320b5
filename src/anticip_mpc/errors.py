"""Exception types, and the package's one input boundary.

Every value read from outside (a JSON file, a config overlay, a CLI flag) is
checked here before the planner sees it: :func:`read_json` reads each input
file, :func:`number`, :func:`integer`, :func:`boolean` and
:func:`float_array` check single fields, :func:`store` keeps what passed on
the checked object, and :class:`Fields` gives the config dataclasses one
``from_dict`` and ``to_dict``. Numbers must be JSON numbers (never bools or
strings) and finite; integers must be integers (never ``1.5`` or ``"3"``). A
failed check raises :class:`InvalidInputError` naming the field, which the
CLI reports with exit code 2. Every JSON file the package writes goes through
:func:`write_json`.
"""

import json
import math
from pathlib import Path

import numpy as np


# the numeric types a JSON number or a NumPy scalar arrives as; a bool is an
# int, so each check excludes it explicitly
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


# the version every file the package writes carries, and the only one it reads
SCHEMA_VERSION = 1


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


def write_json(path, data, indent=None) -> None:
    """Write `data` to `path` as JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=indent, sort_keys=True) + "\n")


def number(value, name: str, low=None, strict: bool = False) -> float:
    """`value` as a float: a finite real, not a bool or a string, and at least
    `low` (above it if `strict`) where `low` is given."""
    try:
        ok = isinstance(value, _REALS) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    if ok and low is not None:
        ok = value > low if strict else value >= low
    if not ok:
        if low is None:
            rule = "a finite number"
        elif strict and low == 0:
            rule = "positive and finite"
        else:
            rule = f"finite and {'>' if strict else '>='} {low:g}"
        raise InvalidInputError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def integer(value, name: str, low=None, high=None) -> int:
    """`value` as an int: an integer, not a bool, `1.5` or `"3"`, within
    [`low`, `high`] where given."""
    ok = isinstance(value, _INTEGERS) and not isinstance(value, bool)
    if not ok or (low is not None and value < low) or (high is not None and value > high):
        rule = f" in [{low}, {high}]" if high is not None else f" >= {low}" if low is not None else ""
        raise InvalidInputError(f"{name} must be an integer{rule}, got {value!r}")
    return int(value)


def boolean(value, name: str) -> bool:
    """`value` if it is true or false, never a number or a string."""
    if not isinstance(value, bool):
        raise InvalidInputError(f"{name} must be true or false, got {value!r}")
    return value


def float_array(value, name: str, shape: tuple = None, finite: bool = True) -> np.ndarray:
    """`value` as a float array of numbers (not bools or strings), of `shape` where given (a
    None in `shape` allows any size on that axis), and finite unless `finite` is false, for a
    caller that names the first non-finite entry itself."""
    try:
        if not isinstance(value, np.ndarray):
            # each element's own type decides: np.asarray would turn a bool among numbers into a number
            value = np.array(value, dtype=object)
            if all(issubclass(k, _REALS) and k is not bool for k in set(map(type, value.flat))):
                value = value.astype(float)
    except (ValueError, OverflowError):  # ragged nesting, or an integer too large for a float
        value = None
    if value is None or value.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be a rectangular array of numbers")
    arr = np.asarray(value, dtype=float)
    if shape is not None and (
        arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
    ):
        want = ", ".join("*" if d is None else str(d) for d in shape) + ("," if len(shape) == 1 else "")
        raise InvalidInputError(f"{name} must have shape ({want}), got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr


def store(obj, **values) -> None:
    """Set each of `values` on `obj`, frozen dataclass or not. An array is stored as the
    object's own read-only copy, so the caller's array is never shared and never frozen."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


class Fields:
    """Base of the config dataclasses read from JSON objects.

    A subclass checks each field in ``__post_init__`` with :meth:`_check`,
    so every field's rule sits where the class is declared; messages name
    the field as ``"<section> <field>"``.
    """

    section = "config"

    def _check(self, name: str, check, *bounds, **options) -> None:
        store(self, **{name: check(getattr(self, name), f"{self.section} {name}", *bounds, **options)})

    @classmethod
    def from_dict(cls, data: dict):
        """The instance `data` describes; a non-object or an unknown key is rejected."""
        if not isinstance(data, dict):
            raise InvalidInputError(f"{cls.section} config must be an object, got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidInputError(f"unknown {cls.section} config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        """Every field by name, as JSON-ready data."""
        return {name: _plain(getattr(self, name)) for name in self.__dataclass_fields__}


def _plain(value):
    """`value` as JSON-ready data: arrays and tuples become lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value
