"""Exception types shared across the package, the config schema, the one
JSON-file reader and writer, and the one CSV writer.

The split matters for the CLI, which maps each category to a distinct
exit code (config -> 2, data -> 3, numeric -> 4).
"""

import csv
import dataclasses
import functools
import json
import math
import typing

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or file (camera, generator, training)."""


class _LineError(ValueError):
    """An error in a data file, prefixed with its line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetParseError(_LineError):
    """A dataset file line is not valid JSON."""


class DatasetSchemaError(_LineError):
    """A dataset file line parses but violates the record schema."""


class GenerationError(ConfigError):
    """The generator configuration yielded no usable (visible) queries."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or shape-incompatible."""


class NumericError(ArithmeticError):
    """Non-finite values encountered where finite math is required."""


class TrainingAborted(NumericError):
    """Training hit a non-finite loss or gradient; partial history attached."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


_NUMBER = (int, float, np.integer, np.floating)


@dataclasses.dataclass(frozen=True)
class Bounds:
    """The interval a number must lie in: closed on each side unless that side
    is open; infinite sides are unbounded. A config field declares it beside
    its type as `Annotated[kind, Bounds(...)]`, for the number or each item."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def holds(self, x):
        """Whether x lies in the interval, elementwise on an array; false for NaN."""
        above = self.lo < x if self.lo_open else self.lo <= x
        below = x < self.hi if self.hi_open else x <= self.hi
        return above & below

    def __contains__(self, x) -> bool:
        return bool(self.holds(x))

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"be {'>' if self.lo_open else '>='} {self.lo:g}"
        left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"lie in {left}{self.lo:g}, {self.hi:g}{right}"


class Config:
    """Base of the frozen config dataclasses (camera, generator, training).

    Construction checks every field against its annotation (see
    check_fields); a subclass that overrides __post_init__ for a rule bounds
    cannot state calls this one first.
    """

    label: typing.ClassVar[str]  # names the config in errors, e.g. "camera config"

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from a JSON object: unknown or missing keys are a ConfigError,
        and JSON lists become tuples."""
        fields = dataclasses.fields(cls)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"unknown {cls.label} keys: {unknown}")
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"{cls.label} missing keys: {missing}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    @classmethod
    def load(cls, path):
        return cls.from_dict(load_json(path, cls.label, ConfigError))


def check_fields(config) -> None:
    """Raise ConfigError unless every field of dataclass `config` holds a value
    of its declared type and within its declared Bounds (see _check_value)."""
    for name, kind in _field_kinds(type(config)):
        _check_value(name, getattr(config, name), kind)


@functools.cache
def _field_kinds(cls) -> tuple:
    """(name, annotated type) of each field of dataclass `cls`, resolved once."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _check_value(name: str, value, kind) -> None:
    """Raise ConfigError, naming `name`, unless `value` is of type `kind`.

    An int is an integer, not a bool or a float. A float is a finite int or
    float, not a bool or a string; JSON's 1e999 parses to inf, which either
    kind rejects as non-finite. Numpy scalars count as numbers. tuple[X, Y]
    is a (lo, hi) range: a tuple of that length with items of those types
    and lo <= hi. `X | None` also takes None. `Annotated[X, Bounds(...)]`
    also requires the number, or each item of the range, to lie in bounds.
    """
    bounds = None
    if typing.get_origin(kind) is typing.Annotated:
        kind, bounds = typing.get_args(kind)
    args = typing.get_args(kind)
    if type(None) in args:
        if value is None:
            return
        (kind,) = (arg for arg in args if arg is not type(None))
        args = typing.get_args(kind)
    items = (value,)
    if typing.get_origin(kind) is tuple:
        if not (isinstance(value, tuple) and len(value) == len(args)):
            raise ConfigError(f"{name} must be {len(args)} numbers, got {value!r}")
        for item, item_kind in zip(value, args):
            _check_value(name, item, item_kind)
        if value[0] > value[1]:
            raise ConfigError(f"{name} must be a (lo, hi) range with lo <= hi, got {value!r}")
        items = value
    elif isinstance(value, (bool, np.bool_)) or not isinstance(value, _NUMBER):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    elif (kind is float or isinstance(value, (float, np.floating))) and not _is_finite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    elif kind is int and not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if bounds is not None and not all(item in bounds for item in items):
        raise ConfigError(f"{name} must {bounds}, got {value!r}")


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def load_json(path, label: str, error: type[Exception]) -> dict:
    """Read a JSON object from `path`; raise `error` naming `label` if the file
    is missing, is not JSON, holds NaN or Infinity, or is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f, parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise error(f"{label} not found: {path}") from exc
    # JSONDecodeError, bad UTF-8, a NaN/Infinity constant, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise error(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{label} must be a JSON object")
    return data


def write_json(path, data) -> None:
    """Write `data` to `path` as indented JSON plus a newline. NaN and
    Infinity raise ValueError before the file is opened: load_json would
    reject them."""
    text = json.dumps(data, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header row, then `rows`, as CSV; csv writes a float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
